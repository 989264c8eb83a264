"""Seeded cross-validation of exact certificates against word-sum traces.

Two runners.  The certificate runner draws random PSD pairs, evaluates a
verified certificate as an explicit sum of squares, and compares against
the word-sum trace ``numeric.trace_hurwitz_numeric``.  The coefficient
runner samples PSD pairs and checks that every word-sum trace for
r = 0..p is nonnegative up to roundoff.  Both emit one record per trial so failures are
reproducible from the recorded seed alone.

Each runner draws all random pairs of one dimension in one pass, then
evaluates all trials of that dimension as one stack of shape (m, n, n):
one call of the sampler, of the trace and of the certificate evaluator
per dimension, not per trial.  Every pair is still a function of its
own trial seed alone, and a slice's value does not depend on the rest
of its stack, so a row equals, bit for bit, the row of the same seed
run alone.  The bookkeeping of a dimension group is whole-group work
too: its trial seeds are checked once and both substream seeds derived
in one uint64 pass, its degrees are checked in one pass over the
group's traces, and its rows are built from one ``tolist()`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .certificate import Certificate
from .words import check_degrees, check_positive_int
from .numeric import (
    SEED_LIMIT,
    _check_seed,
    _derive_seeds,
    _seed_vector,
    bmv_coefficients,
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


def _check_trial_seeds(seed: int, count: int) -> None:
    """Reject a seed whose ``count`` trial seeds seed, seed + 1, ... would
    not all be distinct 64-bit seeds."""
    if seed > SEED_LIMIT - count:
        raise ValueError(
            f"seed must lie in [0, 2**64 - {count}] so that its {count} "
            f"trial seeds stay below 2**64, got {seed}"
        )


@dataclass(frozen=True)
class TrialConfig:
    """Seed, dimensions, trial count and tolerance of a trial run.

    Both runners read ``seed``, ``dims`` and ``trials``.  ``trials``
    counts random trials per dimension for the certificate runner and
    total trials (cycled over the dimensions) for the coefficient
    runner.  Only the certificate runner reads ``tol_rel``;
    ``bmv_check_trials`` takes its own ``tol``.  ``trials`` and each of
    the nonempty ``dims`` must be positive ints and ``seed`` must lie in
    [0, 2**64); a bad value raises ``ValueError`` naming it.  Each runner
    also rejects a seed whose trial seeds, seed, seed + 1, ..., one per
    random trial it runs, would reach 2**64.
    """

    seed: int = 0
    dims: Tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    trials: int = 100
    tol_rel: float = 1e-8

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        check_positive_int(self.trials, "trials")
        _check_tolerance("tol_rel", self.tol_rel)
        if not self.dims:
            raise ValueError("dims must be nonempty")
        for k, n in enumerate(self.dims):
            check_positive_int(n, f"dims[{k}]")


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


def trial_pair(n: int, trial_seeds: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The stacks (A, B) of random PSD pairs of dimension n, one per trial seed.

    Slice k of A is drawn from ``derive_seed(trial_seeds[k], 0)`` and of B
    from ``derive_seed(trial_seeds[k], 1)``, all in one ``random_psd`` call,
    so a slice is what its trial seed draws alone.  The trial seeds are
    checked once, as a seed sequence, and both substreams are derived
    for the whole vector at once.
    """
    seeds, _ = _seed_vector(list(trial_seeds))
    drawn = random_psd(n, _derive_seeds(seeds, (0, 1)).ravel().tolist())
    return drawn[: len(seeds)], drawn[len(seeds):]


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
    _check_trial_seeds(config.seed, len(config.dims) * config.trials)
    # (n, label, A, B) of the fixed pairs, which come first in row order;
    # the random trials follow, config.trials per dimension, seeded
    # config.seed, config.seed + 1, ... in row order
    fixed = [(1, "scalar(2,3)", np.array([[2.0]]), np.array([[3.0]]))]
    fixed += [(n, "identity", np.eye(n), np.eye(n)) for n in config.dims]
    dims = [f[0] for f in fixed] + [n for n in config.dims for _ in range(config.trials)]

    rows: List[Optional[TrialRow]] = [None] * len(dims)
    for n, indices in _indices_by_dimension(dims).items():
        head = [i for i in indices if i < len(fixed)]
        seeds = [config.seed + i - len(fixed) for i in indices[len(head):]]
        labels = [fixed[i][1] for i in head] + [str(s) for s in seeds]
        A = np.stack([fixed[i][2] for i in head])
        B = np.stack([fixed[i][3] for i in head])
        if seeds:
            A_random, B_random = trial_pair(n, seeds)
            A, B = np.concatenate([A, A_random]), np.concatenate([B, B_random])
        oracles = trace_hurwitz_numeric(A, B, cert.p, cert.r).tolist()
        values = eval_certificate_numeric(cert, A, B).tolist()
        for i, label, oracle, value in zip(indices, labels, oracles, values):
            rows[i] = _trial_row(cert, n, label, oracle, value, config.tol_rel)
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
    p: int, n: int, trial_seed: int, coeffs: List[float], tol: float
) -> CoefficientRow:
    """Check one pair's p+1 coefficients, as Python floats, for nonnegativity."""
    threshold = tol * (1.0 + max(map(abs, coeffs)))
    smallest = min(coeffs)
    return CoefficientRow(
        p=p,
        n=n,
        trial_seed=trial_seed,
        coefficients=tuple(coeffs),
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
    _check_trial_seeds(config.seed, config.trials)
    dims = [config.dims[t % len(config.dims)] for t in range(config.trials)]
    rows: List[Optional[CoefficientRow]] = [None] * config.trials
    for n, indices in _indices_by_dimension(dims).items():
        seeds = [config.seed + t for t in indices]
        A, B = trial_pair(n, seeds)
        for t, seed, coeffs in zip(indices, seeds, bmv_coefficients(A, B, p).tolist()):
            rows[t] = _coefficient_row(p, n, seed, coeffs, tol)
    return CoefficientReport(rows=tuple(rows), tol=tol)
